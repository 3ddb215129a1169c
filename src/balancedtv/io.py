"""File formats: edge lists, label CSVs and feature matrices.

Edge list: whitespace-separated lines ``i j w`` with 0-based node indices,
one undirected edge per line (the loader adds both directions); a line that
starts with ``#`` after any whitespace is a comment, and a ``#`` after data
is an error.  Labels: CSV ``node,label`` with a header and no comments.
Features: CSV of floats, one row per point, no header; ``#`` starts a
comment anywhere on a line.  All three skip lines of only whitespace.

Each loader streams its file once through np.loadtxt, CHUNK_LINES lines per
call, and checks the values with vectorised tests.  A ValueError names the
file and its first bad line, found by parsing a rejected chunk line by line
and numbered by reading it again; a pipe, read only once, is kept in memory.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .graph import SparseGraph

__all__ = ["load_edge_list", "save_edge_list", "load_labels", "load_label_pairs",
           "save_labels", "load_features", "save_features"]

WEIGHT_SUM_LIMIT = np.finfo(np.float64).max / 4  # keeps every degree and 2m finite
INT64_MAX = np.iinfo(np.int64).max
_blank_or_comment = re.compile(r"\s*(?:#|$)").match  # edge-list and feature lines not data
CHUNK_LINES = 4096  # data lines per np.loadtxt call


def load_edge_list(path) -> SparseGraph:
    """Parse an edge-list file into a :class:`SparseGraph` whose node count
    is the largest index + 1.

    Malformed lines, node indices outside [0, 2^63 - 1), negative or
    non-finite weights and a weight that makes the total overflow are
    reported with their 1-based line number, as is the first largest index
    when the graph it sizes does not fit in memory.
    """
    edges, line_of = _load(
        path, _blank_or_comment, _edge_problems,
        lambda text, _: _unparsable(text, None, "'i j w'", "node index"),
        dtype=[("i", np.int64), ("j", np.int64), ("w", np.float64)], comments=None, ndmin=1)
    i, j, w = edges["i"], edges["j"], edges["w"]
    top = int(max(i.max(initial=-1), j.max(initial=-1)))
    try:
        return SparseGraph.from_coo(top + 1, i, j, w)
    except MemoryError:
        line = line_of(np.argmax((i == top) | (j == top)))
        raise ValueError(f"{path}: line {line}: node index {top} asks for a "
                         f"{top + 1}-node graph, too large for memory") from None


def _edge_problems(edges, line_of):
    i, j, w = edges["i"], edges["j"], edges["w"]
    with np.errstate(over="ignore", invalid="ignore"):  # NaN follows a non-finite weight
        total = np.cumsum(w)
    return [((i < 0) | (j < 0), lambda row: "negative node index"),
            # the node count must fit int64
            (np.maximum(i, j) == INT64_MAX, lambda row: f"node index {INT64_MAX} too large"),
            (~((w >= 0) & (w < np.inf)),
             lambda row: f"weight {w[row]} is not a finite nonnegative number"),
            (total > WEIGHT_SUM_LIMIT, lambda row: "total edge weight overflows")]


def save_edge_list(path, graph: SparseGraph) -> None:
    """Write one line per undirected edge (upper triangle of W), then, when
    node n-1 has no edge, the self-loop ``n-1 n-1 0.0``: the loader drops it
    but sizes the graph by it."""
    i, j = graph.row_index(), graph.adjacency.indices
    upper = i < j
    with open(path, "w") as fh:
        fh.write("# i j w\n")
        for a, b, w in zip(i[upper], j[upper], graph.adjacency.data[upper]):
            fh.write(f"{a} {b} {float(w)!r}\n")
        if j[upper].max(initial=-1) < graph.n_nodes - 1:
            fh.write(f"{graph.n_nodes - 1} {graph.n_nodes - 1} 0.0\n")


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
    pairs, _ = _load(
        path, str.isspace, _label_problems,
        lambda text, _: _unparsable(text, ",", "'node,label'", "entry"), header="node,label",
        dtype=[("node", np.int64), ("label", np.int64)], delimiter=",", comments=None, ndmin=1)
    return pairs["node"], pairs["label"]


def _label_problems(pairs, line_of):
    nodes, labels = pairs["node"], pairs["label"]
    ordered = np.sort(nodes)  # far faster than np.unique, which runs only on a repeat
    repeat = np.full(nodes.size, np.any(ordered[1:] == ordered[:-1]))
    if repeat.any():  # mark every row but each node's first
        repeat[np.unique(nodes, return_index=True)[1]] = False

    def repeated(row):
        earlier = line_of(np.argmax(nodes == nodes[row]))
        return f"node {nodes[row]} already labeled on line {earlier}"

    return [((nodes < 0) | (labels < 0), lambda row: "negative entry"), (repeat, repeated)]


def save_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    with open(path, "w") as fh:
        fh.write("node,label\n")
        fh.writelines(f"{node},{label}\n" for node, label in enumerate(labels.tolist()))


def load_features(path) -> np.ndarray:
    """Read a headerless float CSV into an N x d feature matrix; a malformed
    line, or the first with a non-finite entry, is reported with its 1-based
    number."""
    values, _ = _load(
        path, _blank_or_comment,
        lambda values, _: [(~np.isfinite(values).all(axis=1),
                            lambda row: "non-finite feature entry")],
        lambda text, before: _unparsable(
            text, ",", f"{before.shape[1]} numbers" if len(before) else "numbers"),
        dtype=np.float64, delimiter=",", ndmin=2)
    if values.size == 0:
        raise ValueError(f"{path}: empty feature file")
    return values


def save_features(path, features) -> None:
    np.savetxt(path, np.asarray(features, dtype=np.float64), delimiter=",", fmt="%.17g")


def _load(path, skip, problems, unparsable, header=None, **loadtxt):
    """Stream the data lines of ``path`` through np.loadtxt(**loadtxt) in
    chunks; return the array and line_of, which maps a row to its 1-based line.

    A line that skip(line) accepts is not data, nor is a first line that
    must read ``header``.  problems(array, line_of) lists checks (mask,
    message(row)) in the order a row is checked; unparsable(text, before)
    words why np.loadtxt rejects ``text``.  Raises naming the first bad line.
    """
    # a pipe can be read only once
    text = None if os.path.isfile(path) else Path(path).read_text(errors="replace")

    @contextlib.contextmanager
    def lines():
        """The file opened anew, read past its checked header."""
        with open(path, errors="replace") if text is None else StringIO(text) as fh:
            if header and (found := fh.readline().strip()).lower() != header:
                raise ValueError(f"{path}: expected header {header!r}, got {found!r}")
            yield fh

    def parse(data):
        """The lines ``data`` as an array, or None where np.loadtxt rejects them."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # np.loadtxt warns on no data
                return np.loadtxt(data, **loadtxt)
        except ValueError:
            return None

    def line_of(row):
        with lines() as fh:
            numbers = (n for n, line in enumerate(fh, 2 if header else 1) if not skip(line))
            return next(itertools.islice(numbers, row, None))

    def append(chunk):
        """Append the rows of ``chunk`` before its first bad line to values,
        grown in place so that no row is held twice; return that line."""
        part = parse(chunk)
        if part is None or (len(values) and part.shape[1:] != values.shape[1:]):
            # one line is the bad line; a chunk is read again line by line
            return chunk[0] if len(chunk) == 1 else read([line] for line in chunk)
        chunk.clear()  # its lines are freed before values grows
        values.resize((len(values) + len(part), *part.shape[1:]), refcheck=False)
        # as bytes: numpy copies a structured array field by field, 8 times slower
        values[-len(part):].view(np.uint8)[:] = part.view(np.uint8)

    def read(chunks):  # appends to values the rows before the first bad line; returns it
        return next(filter(None, map(append, chunks)), None)

    values = parse([])  # no rows, in the loader's dtype and shape
    with lines() as fh:
        data = itertools.filterfalse(skip, fh)
        rejected = read(iter(lambda: list(itertools.islice(data, CHUNK_LINES)), []))
    flagged = [(mask.argmax(), message)
               for mask, message in problems(values, line_of) if mask.any()]
    if rejected is not None:  # the rejected line follows every row of values
        flagged.append((len(values), lambda row: unparsable(rejected, values)))
    if flagged:
        row, message = min(flagged, key=lambda found: found[0])
        raise ValueError(f"{path}: line {line_of(row)}: {message(row)}")
    return values, line_of


def _unparsable(text, sep, layout, name=None):
    """Why np.loadtxt rejects the line ``text``: one of its first two fields,
    where ``name`` names them, is an integer outside int64; else it does not
    match ``layout``."""
    ints = [int(field) for field in text.split(sep)[:2]
            if name and re.fullmatch(r"\s*[+-]?[0-9]+\s*", field)]
    if min(ints, default=0) < -INT64_MAX - 1:
        return f"negative {name}"
    if max(ints, default=0) > INT64_MAX:
        return f"{name} {max(ints)} too large"
    return f"expected {layout}, got {text.strip()!r}"
