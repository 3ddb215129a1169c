"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every expected value is either computed here by an independent oracle
(dense matrix exponential, dense brute-force modularity, full enumeration of
small partitions) or is a fixed tolerance stated up front.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import balancedtv.eigen as eigen_mod
from balancedtv import (
    DiffusionOperator,
    Supervision,
    balanced_cut,
    balanced_cut_centered,
    balanced_tv,
    classification_rate,
    consistency,
    dense_spectrum,
    diffuse,
    knn_graph,
    labels_to_matrix,
    mbo_run,
    modularity,
    planted_partition,
    purity,
    random_start,
    recursive_partition,
    smallest_eigenpairs,
    sweep_nhat,
    threshold,
    two_moons,
)
from conftest import random_graph, random_one_hot


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} - {detail}")
    return ok


# -- criteria 1 and 2 share the two-moons pipeline ---------------------------


@pytest.fixture(scope="module")
def moons_pipeline():
    start = time.perf_counter()
    features, truth = two_moons(2000, 100, noise_sigma=0.14, seed=0)
    graph = knn_graph(features, 13)
    basis = smallest_eigenpairs(DiffusionOperator(graph, 0.2), 10)
    results = [mbo_run(basis, 2, random_start(basis.n_nodes, 2, seed)) for seed in range(20)]
    elapsed = time.perf_counter() - start
    return {
        "graph": graph,
        "truth": truth,
        "basis": basis,
        "modularity": np.array([r.modularity for r in results]),
        "classification": np.array([classification_rate(r.labels, truth)
                                    for r in results]),
        "elapsed": elapsed,
    }


def test_criterion_1_two_moons_end_to_end(moons_pipeline):
    best_q = moons_pipeline["modularity"].max()
    best_cls = moons_pipeline["classification"].max()
    elapsed = moons_pipeline["elapsed"]
    ok = best_q >= 0.80 and best_cls >= 0.93 and elapsed <= 60.0
    assert report(
        1, ok,
        f"two moons, 20 seeds: best modularity {best_q:.4f} (>= 0.80), "
        f"best classification {best_cls:.4f} (>= 0.93), {elapsed:.1f}s (<= 60s)",
    )


def test_criterion_2_supervision_consistency(moons_pipeline):
    graph = moons_pipeline["graph"]
    truth = moons_pipeline["truth"]
    basis = moons_pipeline["basis"]
    rng = np.random.default_rng(0)
    supervised = rng.choice(graph.n_nodes, size=graph.n_nodes // 10, replace=False)
    sup = Supervision(supervised, truth[supervised], weight=100.0)
    results = [mbo_run(basis, 2, random_start(basis.n_nodes, 2, seed, sup), supervision=sup) for seed in range(20)]
    sup_consistency = consistency([classification_rate(r.labels, truth) for r in results])
    unsup_consistency = consistency(moons_pipeline["classification"])
    ok = sup_consistency >= 0.9 and sup_consistency >= unsup_consistency
    assert report(
        2, ok,
        f"10% supervision at weight 100: classification consistency "
        f"{sup_consistency:.2f} (>= 0.9 and >= unsupervised {unsup_consistency:.2f})",
    )


def test_criterion_3_equivalence_suite():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst_q, worst_cut, worst_tv = 0.0, 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(3, 40))
        graph = random_graph(rng, n, density=rng.uniform(0.1, 0.9))
        nhat = int(rng.integers(1, 5))
        labels = rng.integers(0, nhat, size=n)
        gamma = rng.uniform(0.05, 4.0)
        twom = graph.total_weight
        q = modularity(graph, labels, gamma)
        bc = balanced_cut(graph, labels, gamma)
        bcc = balanced_cut_centered(graph, labels, gamma, nhat)
        btv = balanced_tv(graph, labels_to_matrix(labels, nhat), gamma)
        worst_q = max(worst_q, abs(q - (1.0 - bc / twom)) / max(1.0, abs(q)))
        worst_cut = max(worst_cut, abs(bc - bcc))
        worst_tv = max(worst_tv, abs(btv - bc) / max(1.0, abs(bc)))
    elapsed = time.perf_counter() - start
    ok = worst_q <= 1e-12 and worst_cut <= 1e-10 and worst_tv <= 1e-12 and elapsed <= 5.0
    assert report(
        3, ok,
        f"200 random triples: modularity vs cut form {worst_q:.2e} (<= 1e-12 rel), "
        f"cut I vs II {worst_cut:.2e} (<= 1e-10), TV vs cut {worst_tv:.2e} "
        f"(<= 1e-12 rel), {elapsed:.2f}s (<= 5s)",
    )


def test_criterion_4_freezing_bounds():
    rng = np.random.default_rng(4)
    degree_switches = spectral_switches = 0
    for _ in range(100):
        n = int(rng.integers(4, 51))
        graph = random_graph(rng, n, density=rng.uniform(0.1, 0.8))
        gamma = rng.uniform(0.2, 3.0)
        op = DiffusionOperator(graph, gamma)
        dense = op.to_dense()
        u0 = random_one_hot(rng, n, 2)

        tau = 0.99 * np.log(2.0) / (2.0 * (gamma + 1.0) * graph.degrees.max())
        moved = threshold(scipy.linalg.expm(-tau * dense) @ u0)
        degree_switches += int(np.sum(moved != np.argmax(u0, 1)))

        rho = np.linalg.eigvalsh(dense)[-1]
        tau_s = 0.99 / rho * np.log(1.0 + n ** -0.5)
        moved_s = threshold(scipy.linalg.expm(-tau_s * dense) @ u0)
        spectral_switches += int(np.sum(moved_s != np.argmax(u0, 1)))
    ok = degree_switches == 0 and spectral_switches == 0
    assert report(
        4, ok,
        f"100 graphs below the freezing timesteps: {degree_switches} switches "
        f"(degree bound), {spectral_switches} switches (spectral bound); both must be 0",
    )


def test_criterion_5_decay_and_growth_bounds():
    rng = np.random.default_rng(5)
    violations = 0
    worst_slack = -np.inf
    for _ in range(100):
        n = int(rng.integers(4, 51))
        graph = random_graph(rng, n, density=rng.uniform(0.1, 0.8))
        gamma = rng.uniform(0.2, 3.0)
        dense = DiffusionOperator(graph, gamma).to_dense()
        lam1 = np.linalg.eigvalsh(dense)[0]
        m_inf = np.abs(dense).sum(axis=1).max()
        nhat = int(rng.integers(2, 5))
        u0 = random_one_hot(rng, n, nhat)
        for tau in (0.1, 1.0, 10.0):
            flowed = scipy.linalg.expm(-tau * dense) @ u0
            decay_gap = np.linalg.norm(flowed) - np.exp(-tau * lam1) * np.linalg.norm(u0)
            with np.errstate(over="ignore"):
                growth_gap = np.abs(flowed - u0).max() - np.expm1(tau * m_inf)
            worst_slack = max(worst_slack, decay_gap, growth_gap)
            if decay_gap > 1e-10 or growth_gap > 1e-10:
                violations += 1
    ok = violations == 0
    assert report(
        5, ok,
        f"100 instances x 3 timesteps: decay and growth bounds hold to 1e-10 "
        f"slack ({violations} violations, worst gap {worst_slack:.2e})",
    )


def test_criterion_6_pseudospectral_exactness():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 101))
        graph = random_graph(rng, n, density=rng.uniform(0.1, 0.6))
        gamma = rng.uniform(0.2, 3.0)
        op = DiffusionOperator(graph, gamma)
        basis = smallest_eigenpairs(op, n)
        u = random_one_hot(rng, n, int(rng.integers(2, 5)))
        dt = rng.uniform(0.01, 2.0)
        exact = scipy.linalg.expm(-dt * op.to_dense()) @ u
        worst = max(worst, np.abs(diffuse(basis, u, dt) - exact).max())
    ok = worst <= 1e-8
    assert report(
        6, ok,
        f"full-basis diffusion vs dense exponential on 50 graphs: "
        f"max deviation {worst:.2e} (<= 1e-8)",
    )


def _enumerate_partitions(n, max_parts):
    """All restricted-growth label strings of length n with <= max_parts."""
    prefixes = np.zeros((1, 1), dtype=np.int8)
    maxes = np.zeros(1, dtype=np.int8)
    for _ in range(n - 1):
        sizes = np.minimum(maxes + 1, max_parts - 1) + 1
        repeat = np.repeat(np.arange(prefixes.shape[0]), sizes)
        starts = np.cumsum(sizes) - sizes
        new_col = (np.arange(repeat.size) - starts[repeat]).astype(np.int8)
        prefixes = np.column_stack([prefixes[repeat], new_col])
        maxes = np.maximum(maxes[repeat], new_col)
    return prefixes


def _brute_force_max_modularity(graph, gamma, max_parts):
    """Independent dense evaluation of modularity over every partition."""
    W = graph.adjacency.toarray()
    k = graph.degrees
    twom = graph.total_weight
    # within-community weight: W_ij [l_i = l_j] over node pairs, both orders
    pair_i, pair_j = np.nonzero(np.triu(W, 1))
    pair_w = 2.0 * W[pair_i, pair_j]
    best = -np.inf
    all_labels = _enumerate_partitions(graph.n_nodes, max_parts)
    for start in range(0, all_labels.shape[0], 100_000):
        block = all_labels[start:start + 100_000]
        win = (block[:, pair_i] == block[:, pair_j]) @ pair_w
        quad = sum(((block == c) @ k) ** 2 for c in range(max_parts))
        best = max(best, np.max((win - gamma * quad / twom) / twom))
    return best


def test_criterion_7_small_instance_optimality():
    rng = np.random.default_rng(7)
    gamma = 1.0
    hits = exceeded = 0
    n_graphs = 50
    start = time.perf_counter()
    for _ in range(n_graphs):
        n = int(rng.integers(5, 13))
        graph = random_graph(rng, n, density=rng.uniform(0.2, 0.8))
        target = _brute_force_max_modularity(graph, gamma, 4)
        basis = smallest_eigenpairs(DiffusionOperator(graph, gamma), n)
        best = -np.inf
        for seed in range(10):
            result = sweep_nhat(basis, range(1, 5), seed=seed)
            best = max(best, result.modularity)
        if best > target + 1e-9:
            exceeded += 1
        if best >= target - 1e-9:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 0.8 * n_graphs and exceeded == 0
    assert report(
        7, ok,
        f"sweep vs exhaustive optimum on {n_graphs} graphs: attained on {hits} "
        f"(>= {int(0.8 * n_graphs)}), exceeded on {exceeded} (must be 0), {elapsed:.1f}s",
    )


def test_criterion_8_recursive_recovery():
    start = time.perf_counter()
    graph, truth = planted_partition(400, 8, 10.0, 1.0, seed=0)
    best = 0.0
    for seed in range(5):
        labels = recursive_partition(DiffusionOperator(graph, 1.0), 2, seed=seed).labels
        best = max(best, purity(labels, truth))
    elapsed = time.perf_counter() - start
    ok = best >= 0.9 and elapsed <= 30.0
    assert report(
        8, ok,
        f"recursive split of 8 planted blocks: best purity {best:.3f} (>= 0.9), "
        f"{elapsed:.1f}s (<= 30s)",
    )


def test_criterion_9_eigensolver_conformance(monkeypatch):
    # every graph is solved twice: by Lanczos (dense limit 0) and by the
    # dense partial solve (all graphs lie below the default limit)
    dense_limit = eigen_mod.DENSE_SOLVE_LIMIT
    assert dense_limit > 200
    rng = np.random.default_rng(9)
    worst_eval = worst_resid = worst_ortho = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        graph = random_graph(rng, n, density=min(0.9, 8.0 / n))
        gamma = rng.uniform(0.2, 3.0)
        op = DiffusionOperator(graph, gamma)
        n_eig = int(rng.integers(4, 13))
        exact, _ = dense_spectrum(op)
        for limit in (0, dense_limit):
            monkeypatch.setattr(eigen_mod, "DENSE_SOLVE_LIMIT", limit)
            basis = smallest_eigenpairs(op, n_eig)
            worst_eval = max(worst_eval, np.abs(basis.eigenvalues - exact[:n_eig]).max())
            v = basis.eigenvectors
            worst_ortho = max(worst_ortho, np.abs(v.T @ v - np.eye(n_eig)).max())
            resid = op.apply(v) - v * basis.eigenvalues
            worst_resid = max(worst_resid, np.linalg.norm(resid, axis=0).max())
    ok = worst_eval <= 1e-8 and worst_resid <= 1e-6 and worst_ortho <= 1e-8
    assert report(
        9, ok,
        f"50 graphs x 2 solvers vs dense oracle: eigenvalue error {worst_eval:.2e} "
        f"(<= 1e-8), residual {worst_resid:.2e} (<= 1e-6), "
        f"orthonormality {worst_ortho:.2e} (<= 1e-8)",
    )
