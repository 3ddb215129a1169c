"""Quality oracle: the solver's modularity against networkx Louvain and
against the generators' ground truth.

Margins come from the code as first measured (one BLAS thread):
- planted_partition(300, 4, 10, 1), seeds 0-7, gamma 1, 20-pair basis: the
  best of 2 count sweeps over 2..6 ended within 1e-5 of Louvain (seed 0) on
  every seed, and the best of 5 fixed 4-community runs within 0.0061;
- two_moons(600, 20), k = 10, gamma 0.2, 10-pair basis: the best of 10
  two-community runs beat the ground-truth partition by 0.0061 to 0.0138.
Each margin below leaves room for rounding differences between BLAS builds
while still failing on a solver that loses a block or a moon.
"""

import numpy as np
import pytest

from balancedtv import (
    DiffusionOperator,
    MboConfig,
    knn_graph,
    mbo_run,
    modularity,
    planted_partition,
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
    i, j = graph.row_index(), graph.col_indices
    upper = i < j
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n_nodes))
    nxg.add_weighted_edges_from(zip(i[upper].tolist(), j[upper].tolist(),
                                    graph.weights[upper].tolist()))
    labels = np.empty(graph.n_nodes, dtype=np.int64)
    for label, members in enumerate(
            nx.community.louvain_communities(nxg, resolution=gamma, seed=0)):
        labels[list(members)] = label
    return modularity(graph, labels, gamma)


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_partition_matches_louvain(seed):
    graph, _ = planted_partition(300, 4, 10.0, 1.0, seed=seed)
    reference = louvain_modularity(graph, 1.0)
    basis = smallest_eigenpairs(DiffusionOperator(graph, 1.0), 20)
    swept = max(sweep_nhat(graph, basis, range(2, 7), MboConfig(1.0, 6, seed=r)).modularity
                for r in range(2))
    fixed = max(mbo_run(graph, basis, MboConfig(1.0, 4, seed=r)).modularity
                for r in range(5))
    assert swept >= reference - SWEEP_MARGIN
    assert fixed >= reference - FIXED_MARGIN


@pytest.mark.parametrize("seed", SEEDS)
def test_two_moons_beat_ground_truth(seed):
    features, truth = two_moons(600, 20, seed=seed)
    graph = knn_graph(features, 10)
    basis = smallest_eigenpairs(DiffusionOperator(graph, 0.2), 10)
    best = max(mbo_run(graph, basis, MboConfig(0.2, 2, seed=r)).modularity
               for r in range(10))
    assert best >= modularity(graph, truth, 0.2) + MOONS_GAIN
