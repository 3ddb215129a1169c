"""Two-moons benchmark: 20 seeded runs, with and without supervision.

Generates the point cloud, builds the self-tuning 13-NN graph, runs the
fixed two-community solver for each seed, and reports best modularity,
best classification rate, consistency, and median wall time.
"""

import argparse
import statistics
import time

import numpy as np

from balancedtv import (
    DiffusionOperator,
    MboConfig,
    Supervision,
    classification_rate,
    consistency,
    knn_graph,
    mbo_run,
    smallest_eigenpairs,
    two_moons,
)


def run_batch(graph, basis, truth, gamma, seeds, supervision=None):
    modularities, classifications, times = [], [], []
    for seed in seeds:
        start = time.perf_counter()
        result = mbo_run(
            graph, basis, MboConfig(gamma=gamma, nhat=2, seed=seed),
            supervision=supervision,
        )
        times.append(1000.0 * (time.perf_counter() - start))
        modularities.append(result.modularity)
        classifications.append(classification_rate(result.labels, truth))
    return np.array(modularities), np.array(classifications), times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--dim", type=int, default=100)
    parser.add_argument("--noise", type=float, default=0.14)
    parser.add_argument("--knn", type=int, default=13)
    parser.add_argument("--gamma", type=float, default=0.2)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--supervised-fraction", type=float, default=0.1)
    parser.add_argument("--supervision-weight", type=float, default=100.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    features, truth = two_moons(args.n, args.dim, args.noise, seed=args.seed)
    graph = knn_graph(features, args.knn)
    basis = smallest_eigenpairs(DiffusionOperator(graph, args.gamma), 10, seed=args.seed)
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges "
          f"(setup {time.perf_counter() - start:.2f}s)")

    seeds = range(args.seed, args.seed + args.runs)
    mods, classes, times = run_batch(graph, basis, truth, args.gamma, seeds)
    print(f"unsupervised: best modularity {mods.max():.4f}, "
          f"best classification {classes.max():.4f}, "
          f"classification consistency {consistency(classes):.2f}, "
          f"median time {statistics.median(times):.0f} ms")

    rng = np.random.default_rng(args.seed)
    picked = rng.choice(graph.n_nodes,
                        size=int(args.supervised_fraction * graph.n_nodes),
                        replace=False)
    sup = Supervision(picked, truth[picked], args.supervision_weight)
    mods, classes, times = run_batch(graph, basis, truth, args.gamma, seeds, sup)
    print(f"{args.supervised_fraction:.0%} supervised: "
          f"best modularity {mods.max():.4f}, "
          f"best classification {classes.max():.4f}, "
          f"classification consistency {consistency(classes):.2f}, "
          f"median time {statistics.median(times):.0f} ms")


if __name__ == "__main__":
    main()
