"""Recursive partitioning of a planted-partition graph.

Generates equal blocks with prescribed within/between degrees, recursively
splits while full-graph modularity increases, and scores the recovery.
"""

import argparse
import time

from balancedtv import (
    DiffusionOperator,
    modularity,
    planted_partition,
    purity,
    recursive_partition,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--blocks", type=int, default=8)
    parser.add_argument("--degree-in", type=float, default=10.0)
    parser.add_argument("--degree-out", type=float, default=1.0)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--split-factor", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    graph, truth = planted_partition(
        args.n, args.blocks, args.degree_in, args.degree_out, seed=args.seed
    )
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges, "
          f"{args.blocks} planted blocks")

    op = DiffusionOperator(graph, args.gamma)
    best_purity, best_q, best_count = 0.0, -1.0, 0
    start = time.perf_counter()
    for seed in range(args.seed, args.seed + args.runs):
        labels = recursive_partition(op, args.split_factor, seed=seed)
        q = modularity(graph, labels, args.gamma)
        p = purity(labels, truth)
        print(f"seed {seed}: {labels.max() + 1} communities, "
              f"modularity {q:.4f}, purity {p:.4f}")
        if p > best_purity:
            best_purity, best_q, best_count = p, q, labels.max() + 1
    elapsed = time.perf_counter() - start
    print(f"best of {args.runs}: purity {best_purity:.4f}, modularity {best_q:.4f}, "
          f"{best_count} communities ({elapsed:.1f}s total)")


if __name__ == "__main__":
    main()
