"""Quality oracle: the solver's modularity against networkx Louvain and
against the generators' ground truth.

Margins come from the code as first measured (one BLAS thread):
- planted_partition(300, 4, 10, 1), seeds 0-7, gamma 1: on a 12-pair basis
  (the CLI's default for --sweep 2..6) the best of 2 count sweeps over 2..6
  ended within 1e-5 of Louvain (seed 0) on every seed, the same gap as on a
  20-pair basis; on a 20-pair basis (the default for --nhat 4) the best of 5
  fixed 4-community runs ended within 0.0061;
- two_moons(600, 20), k = 10, gamma 0.2, 10-pair basis: the best of 10
  two-community runs beat the ground-truth partition by 0.0061 to 0.0138.
Each margin below leaves room for rounding differences between BLAS builds
while still failing on a solver that loses a block or a moon.
"""

import numpy as np
import pytest

from balancedtv import (
    DiffusionOperator,
    knn_graph,
    mbo_run,
    modularity,
    planted_partition,
    random_start,
    smallest_eigenpairs,
    sweep_nhat,
    two_moons,
)

nx = pytest.importorskip("networkx")

SEEDS = range(8)
SWEEP_MARGIN = 1e-3   # best sweep may trail Louvain by this much (measured 1e-5)
FIXED_MARGIN = 0.01   # best fixed run may trail Louvain by this much (measured 0.0061)
MOONS_GAIN = 0.003    # best moons run must beat the truth by this much (measured 0.0061)


def louvain_modularity(graph, gamma):
    """Modularity, by this package's definition, of networkx's Louvain partition."""
    i, j = graph.row_index(), graph.adjacency.indices
    upper = i < j
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n_nodes))
    nxg.add_weighted_edges_from(zip(i[upper].tolist(), j[upper].tolist(),
                                    graph.adjacency.data[upper].tolist()))
    labels = np.empty(graph.n_nodes, dtype=np.int64)
    for label, members in enumerate(
            nx.community.louvain_communities(nxg, resolution=gamma, seed=0)):
        labels[list(members)] = label
    return modularity(graph, labels, gamma)


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_partition_matches_louvain(seed):
    graph, _ = planted_partition(300, 4, 10.0, 1.0, seed=seed)
    reference = louvain_modularity(graph, 1.0)
    operator = DiffusionOperator(graph, 1.0)
    sweep_basis = smallest_eigenpairs(operator, 12)
    swept = max(sweep_nhat(sweep_basis, range(2, 7), seed=r).modularity
                for r in range(2))
    basis = smallest_eigenpairs(operator, 20)
    fixed = max(mbo_run(basis, 4, random_start(basis.n_nodes, 4, r)).modularity
                for r in range(5))
    assert swept >= reference - SWEEP_MARGIN
    assert fixed >= reference - FIXED_MARGIN


@pytest.mark.parametrize("seed", SEEDS)
def test_two_moons_beat_ground_truth(seed):
    features, truth = two_moons(600, 20, seed=seed)
    graph = knn_graph(features, 10)
    basis = smallest_eigenpairs(DiffusionOperator(graph, 0.2), 10)
    best = max(mbo_run(basis, 2, random_start(basis.n_nodes, 2, r)).modularity
               for r in range(10))
    assert best >= modularity(graph, truth, 0.2) + MOONS_GAIN
