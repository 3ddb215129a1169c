"""Sparse symmetric graphs and the energies driving modularity optimization.

The central object is :class:`SparseGraph`, an immutable CSR representation of
a nonnegatively weighted undirected graph with cached degrees and total weight
2m.  On top of it live the set and partition energies: cut, volume, graph
total variation, modularity with resolution parameter gamma, the balanced-cut
and balanced-TV reformulations of modularity, a Ginzburg-Landau diagnostic
energy, and the fidelity-augmented objective for semi-supervised runs.

A partition is an integer label vector of length N.  The N x nhat one-hot
matrix of :func:`labels_to_matrix` is only the input of the public diffusion
step and of the matrix energies below; the MBO loop keeps its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseGraph",
    "Supervision",
    "labels_to_matrix",
    "cut",
    "volume",
    "graph_tv",
    "modularity",
    "balanced_cut",
    "balanced_cut_centered",
    "balanced_tv",
    "gl_energy",
    "ssl_energy",
]

VALIDATE_RTOL = 1e-12  # relative slack SparseGraph.validate allows cached sums


@dataclass(frozen=True)
class SparseGraph:
    """Weighted undirected graph: its weight matrix W as one canonical scipy
    CSR matrix ``adjacency`` (arrays read-only), its degrees and 2m.

    Invariants (enforced by the constructors, rechecked by :meth:`validate`):
    every stored entry (i, j, w) has a mirror (j, i, w) with the identical
    weight, all weights are positive (zero entries are not stored), the
    diagonal is empty, ``degrees`` equals the row sums of the weight matrix,
    and ``total_weight`` (2m) equals the sum of the degrees.

    Instances are immutable and safe to share across threads.
    """

    adjacency: sp.csr_matrix
    degrees: np.ndarray
    total_weight: float

    def __post_init__(self):
        w = self.adjacency
        for arr in (w.indptr, w.indices, w.data, self.degrees):
            arr.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scipy(cls, matrix) -> "SparseGraph":
        """Build from any scipy sparse matrix; must already be symmetric.

        Self-loops are stripped, explicit zeros dropped, duplicates summed.
        Weights must be finite and nonnegative.
        """
        w = sp.coo_matrix(matrix, dtype=np.float64)
        if w.shape[0] != w.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {w.shape}")
        keep = w.row != w.col
        w = sp.coo_matrix(
            (w.data[keep], (w.row[keep], w.col[keep])), shape=w.shape
        ).tocsr()
        w.sum_duplicates()
        w.eliminate_zeros()
        if not np.isfinite(w.data).all():
            raise ValueError("edge weights must be finite")
        if w.nnz and w.data.min() < 0:
            raise ValueError("edge weights must be nonnegative")
        if (w != w.T).nnz != 0:
            raise ValueError("adjacency matrix must be symmetric")
        return cls._from_canonical_csr(w)

    @classmethod
    def _from_canonical_csr(cls, w: sp.csr_matrix) -> "SparseGraph":
        """Wrap a CSR matrix that already satisfies every class invariant
        (sorted indices, no duplicates, zeros or self-loops, symmetric,
        positive) and derive its degrees."""
        degrees = np.asarray(w.sum(axis=1)).ravel()
        return cls(adjacency=w, degrees=degrees, total_weight=float(degrees.sum()))

    @classmethod
    def from_coo(cls, n_nodes, rows, cols, weights) -> "SparseGraph":
        """Build from undirected edge triplets: each (i, j, w) also gives
        (j, i, w), and repeated triplets accumulate in either orientation."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if rows.size and (rows.min() < 0 or cols.min() < 0
                          or rows.max() >= n_nodes or cols.max() >= n_nodes):
            raise ValueError("node index out of range")
        if np.any(weights < 0):
            raise ValueError("edge weights must be nonnegative")
        # mirror the upper triangle after its repeats are summed, so that
        # W[i, j] and W[j, i] are the same float.  Self-loops are zeroed, not
        # dropped: scipy sums repeats after an unstable per-row sort, and with
        # the rows intact the sums round as in from_scipy(upper + upper.T)
        weights = np.where(rows == cols, 0.0, weights)
        upper = sp.coo_matrix((weights, (np.minimum(rows, cols), np.maximum(rows, cols))),
                              shape=(n_nodes, n_nodes)).tocsr()
        upper.eliminate_zeros()
        if not np.isfinite(upper.data).all():
            raise ValueError("edge weights must be finite")
        return cls._from_canonical_csr(upper + upper.T)

    @classmethod
    def from_dense(cls, dense) -> "SparseGraph":
        return cls.from_scipy(sp.csr_matrix(np.asarray(dense, dtype=np.float64)))

    # -- views -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes (rows of W)."""
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (stored entries / 2)."""
        return self.adjacency.nnz // 2

    def row_index(self) -> np.ndarray:
        """Source node of each stored entry, computed on each call."""
        return np.repeat(np.arange(self.n_nodes, dtype=np.int64), np.diff(self.adjacency.indptr))

    def subgraph(self, nodes) -> "SparseGraph":
        """Induced subgraph on ``nodes`` (relabeled 0..len(nodes)-1)."""
        nodes = _check_subset(self, nodes)
        # an induced subgraph of a valid graph is valid, so skip from_scipy's checks
        w = self.adjacency[nodes][:, nodes]
        w.sort_indices()
        return SparseGraph._from_canonical_csr(w)

    def validate(self) -> None:
        """Recheck all structural invariants; raises ValueError on failure."""
        w = self.adjacency
        if w.nnz and w.data.min() < 0:
            raise ValueError("negative edge weight")
        if w.diagonal().any():
            raise ValueError("self-loop stored on the diagonal")
        if (w != w.T).nnz != 0:
            raise ValueError("stored matrix is not symmetric")
        row_sums = np.asarray(w.sum(axis=1)).ravel()
        scale = max(1.0, float(np.abs(row_sums).max(initial=0.0)))
        # written "not err <= tol" so that a NaN fails too
        if not np.max(np.abs(row_sums - self.degrees), initial=0.0) <= VALIDATE_RTOL * scale:
            raise ValueError("cached degrees disagree with row sums")
        total = float(self.degrees.sum())
        if not abs(total - self.total_weight) <= VALIDATE_RTOL * max(1.0, abs(total)):
            raise ValueError("cached total weight disagrees with degree sum")


def _check_subset(graph: SparseGraph, subset) -> np.ndarray:
    """``subset`` as sorted distinct node ids, checked against the graph."""
    nodes = np.asarray(subset, dtype=np.int64).ravel()
    if not np.all(nodes[1:] > nodes[:-1]):  # recursion passes sorted distinct ids
        nodes = np.unique(nodes)
    if nodes.size and (nodes[0] < 0 or nodes[-1] >= graph.n_nodes):
        raise ValueError(
            f"node index out of range [0, {graph.n_nodes}): {nodes[0 if nodes[0] < 0 else -1]}"
        )
    return nodes


def _as_column_matrix(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2:
        raise ValueError(f"assignment array must be 1-d or 2-d, got ndim={u.ndim}")
    return u


# -- partitions --------------------------------------------------------------


def labels_to_matrix(labels, n_communities: int) -> np.ndarray:
    """One-hot N x n_communities matrix for an integer label vector."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size and labels.max() >= n_communities:
        raise ValueError("label id exceeds the requested community count")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    u = np.zeros((labels.size, n_communities), dtype=np.float64)
    u[np.arange(labels.size), labels] = 1.0
    return u


@dataclass(frozen=True)
class Supervision:
    """Known labels for a subset of nodes plus the fidelity weight.

    ``nodes`` lists the supervised node ids, ``labels`` their community
    labels, and ``weight`` is the fidelity strength (lambda >= 0).
    """

    nodes: np.ndarray
    labels: np.ndarray
    weight: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.int64).ravel()
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if nodes.size != np.unique(nodes).size:
            raise ValueError("supervised node ids must be unique")
        if labels.size != nodes.size:
            raise ValueError("one label per supervised node required")
        if labels.size and labels.min() < 0:
            raise ValueError("supervised labels must be nonnegative")
        if not self.weight >= 0:  # NaN fails too
            raise ValueError("fidelity weight must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "labels", labels)

    @property
    def classes(self) -> int:
        """Communities the labels need: the largest label + 1."""
        return int(self.labels.max(initial=-1)) + 1

    def targets(self, nhat: int) -> np.ndarray:
        """The supervised rows of the one-hot target matrix f."""
        return labels_to_matrix(self.labels, nhat)

    def check_against(self, n_nodes: int, n_communities: int) -> None:
        if self.nodes.size and (self.nodes.min() < 0 or self.nodes.max() >= n_nodes):
            raise ValueError("supervised node id out of range")
        if self.classes > n_communities:
            raise ValueError(f"supervision labels need {self.classes} communities, "
                             f"got {n_communities}")


# -- energies ---------------------------------------------------------------


def cut(graph: SparseGraph, subset) -> float:
    """Total weight crossing from ``subset`` to its complement.

    Returns sum_{i in S, j notin S} w_ij (each crossing edge counted once per
    stored direction leaving S).
    """
    nodes = _check_subset(graph, subset)
    inside = np.zeros(graph.n_nodes, dtype=bool)
    inside[nodes] = True
    w = graph.adjacency
    mask = inside[graph.row_index()] & ~inside[w.indices]
    return float(w.data[mask].sum())


def volume(graph: SparseGraph, subset) -> float:
    """Sum of degrees over ``subset``; the whole node set has volume 2m."""
    nodes = _check_subset(graph, subset)
    return float(graph.degrees[nodes].sum())


def graph_tv(graph: SparseGraph, u) -> float:
    """Graph total variation of a node function.

    For a vector, (1/2) sum_ij w_ij |u_i - u_j|; columns of a matrix are
    summed.  On an indicator column this equals the cut of the indicated set,
    and on a partition matrix the sum of all community cuts.
    """
    u = _as_column_matrix(u)
    if u.shape[0] != graph.n_nodes:
        raise ValueError(
            f"assignment has {u.shape[0]} rows for a graph with {graph.n_nodes} nodes"
        )
    w = graph.adjacency
    diffs = np.abs(u[graph.row_index()] - u[w.indices])
    return 0.5 * float(w.data @ diffs.sum(axis=1))


def _community_sums(graph: SparseGraph, labels: np.ndarray):
    """(within-community ordered-pair weight, per-community volumes)."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != graph.n_nodes:
        raise ValueError("label vector length must equal the node count")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    w = graph.adjacency
    same = np.repeat(labels, np.diff(w.indptr)) == labels[w.indices]
    w_in = float(w.data[same].sum())
    vols = np.bincount(labels, weights=graph.degrees)
    return w_in, vols


def modularity(graph: SparseGraph, labels, gamma: float) -> float:
    """Modularity of a partition with resolution parameter gamma.

    Q = (1/2m) sum_l sum_{i,j in A_l} (w_ij - gamma k_i k_j / 2m), with both
    inner sums over ordered pairs.  The all-in-one-community partition scores
    exactly 1 - gamma.
    """
    if not 0 < gamma < np.inf:
        raise ValueError("resolution parameter gamma must be positive and finite")
    if graph.total_weight == 0:
        raise ValueError("modularity is undefined on a graph with no edges (2m = 0)")
    w_in, vols = _community_sums(graph, labels)
    twom = graph.total_weight
    return (w_in - gamma * float(vols @ vols) / twom) / twom


def balanced_cut(graph: SparseGraph, labels, gamma: float) -> float:
    """Cut-plus-squared-volume form: sum_l [Cut(A_l, A_l^c) + (g/2m) vol(A_l)^2].

    Minimizers coincide with modularity maximizers;
    modularity = 1 - balanced_cut / 2m exactly.
    """
    if graph.total_weight == 0:
        raise ValueError("undefined on a graph with no edges (2m = 0)")
    w_in, vols = _community_sums(graph, labels)
    twom = graph.total_weight
    return (twom - w_in) + gamma * float(vols @ vols) / twom


def balanced_cut_centered(graph: SparseGraph, labels, gamma: float, n_communities: int) -> float:
    """Equivalent balanced-cut form with volumes measured against 2m/nhat.

    sum_l [Cut(A_l, A_l^c) + (g/2m)(vol A_l - 2m/nhat)^2] + g 2m/nhat.  Equal
    to :func:`balanced_cut` as an algebraic identity; the quadratic term
    vanishes exactly for perfectly volume-balanced partitions.
    """
    if n_communities < 1:
        raise ValueError("community count must be at least 1")
    if graph.total_weight == 0:
        raise ValueError("undefined on a graph with no edges (2m = 0)")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size and labels.max() >= n_communities:
        raise ValueError("label id exceeds the declared community count")
    w_in, vols = _community_sums(graph, labels)
    twom = graph.total_weight
    if vols.size < n_communities:  # trailing empty communities still penalized
        vols = np.concatenate([vols, np.zeros(n_communities - vols.size)])
    target = twom / n_communities
    dev = vols - target
    return (twom - w_in) + gamma * float(dev @ dev) / twom + gamma * target


def balanced_tv(graph: SparseGraph, u, gamma: float) -> float:
    """TV form of the balanced objective: |u|_TV + (g/2m) ||k^T u||_2^2.

    Defined for arbitrary real N x nhat matrices; on partition matrices it
    equals :func:`balanced_cut` of the corresponding labels.
    """
    if graph.total_weight == 0:
        raise ValueError("undefined on a graph with no edges (2m = 0)")
    u = _as_column_matrix(u)
    tv = graph_tv(graph, u)  # also validates the row count
    ktu = graph.degrees @ u
    return tv + gamma * float(ktu @ ktu) / graph.total_weight


def _multiwell_potential(u: np.ndarray) -> np.ndarray:
    """P(v) = prod_l (1/4)||v - e_l||^2 per row; exactly 0 at simplex corners."""
    sq_norms = np.einsum("ij,ij->i", u, u)
    terms = 0.25 * (sq_norms[:, None] - 2.0 * u + 1.0)
    return np.prod(terms, axis=1)


def gl_energy(graph: SparseGraph, u, gamma: float, epsilon: float) -> float:
    """Ginzburg-Landau diagnostic energy.

    trace(u^T L u) + (1/eps) sum_i P(u_i) + (g/2m) ||k^T u||_2^2 with the
    multiwell potential P above.  A diagnostic that the tests check; no
    solver path computes or optimizes it.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if graph.total_weight == 0:
        raise ValueError("undefined on a graph with no edges (2m = 0)")
    u = _as_column_matrix(u)
    if u.shape[0] != graph.n_nodes:
        raise ValueError("row count must equal the node count")
    lap_u = graph.degrees[:, None] * u - graph.adjacency @ u
    dirichlet = float(np.einsum("ij,ij->", u, lap_u))
    potential = float(_multiwell_potential(u).sum()) / epsilon
    ktu = graph.degrees @ u
    return dirichlet + potential + gamma * float(ktu @ ktu) / graph.total_weight


def ssl_energy(graph: SparseGraph, u, gamma: float, supervision: Supervision) -> float:
    """Balanced TV plus the fidelity penalty on supervised rows.

    balanced_tv(u) + lambda * sum over supervised rows ||u_i - f_i||^2.
    """
    u = _as_column_matrix(u)
    supervision.check_against(graph.n_nodes, u.shape[1])
    resid = u[supervision.nodes] - supervision.targets(u.shape[1])
    return balanced_tv(graph, u, gamma) + supervision.weight * float(
        np.einsum("ij,ij->", resid, resid)
    )
