"""Golden seeded outputs: each strategy, run with fixed seeds on small
generated graphs, must reproduce the partition it gave when these values were
recorded.  A refactor that changes any of them changes what users get for
the same command, and must say so.

Labels are pinned by the SHA-256 of their int64 bytes, and traces by that of
their float64 bytes, so those checks are exact.
Iteration counts are exact; timesteps and modularity come out of floating
point that depends on the eigensolver's last bits, so they are pinned to
1e-12 relative.
"""

import hashlib

import numpy as np
import pytest

from balancedtv import (
    DiffusionOperator,
    Supervision,
    mbo_run,
    modularity,
    planted_partition,
    random_start,
    recursive_partition,
    smallest_eigenpairs,
    sweep_nhat,
)


def digest(labels):
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()


def float_digest(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def planted():
    graph, truth = planted_partition(120, 4, 8.0, 1.0, seed=11)
    basis = smallest_eigenpairs(DiffusionOperator(graph, 1.0), 20)
    return basis, truth


def check(result, sha, iterations, dt, q):
    assert digest(result.labels) == sha
    assert result.iterations == iterations
    assert result.dt_used == pytest.approx(dt, rel=1e-12)
    assert result.modularity == pytest.approx(q, rel=1e-12)


def test_fixed_run(planted):
    basis, _ = planted
    check(mbo_run(basis, 4, random_start(basis.n_nodes, 4, 3)),
          "18e65e8ac6515f1621672d1de5c1088313884df9acac5ed5f9050c471439b8a8",
          7, 0.22227044189355064, 0.664214601027788)


def test_supervised_run(planted):
    basis, truth = planted
    nodes = np.array([np.flatnonzero(truth == b)[0] for b in range(4)])
    sup = Supervision(nodes, truth[nodes], 100.0)
    check(mbo_run(basis, 4, random_start(basis.n_nodes, 4, 5, sup), supervision=sup),
          "bad3adf37f7ee5f2c48715d5d01462f8f04be03b89a680210f3ab3db193dba59",
          11, 0.22227044189355064, 0.6443515275932858)


def test_traces(planted):
    # the runs of test_fixed_run and test_supervised_run with trace=True: the
    # float64 bytes of every iterate's balanced TV and modularity
    basis, truth = planted
    nodes = np.array([np.flatnonzero(truth == b)[0] for b in range(4)])
    sup = Supervision(nodes, truth[nodes], 100.0)
    fixed = mbo_run(basis, 4, random_start(basis.n_nodes, 4, 3), trace=True)
    supervised = mbo_run(basis, 4, random_start(basis.n_nodes, 4, 5, sup),
                         supervision=sup, trace=True)
    assert [float_digest(t) for t in (fixed.energy_trace, fixed.modularity_trace)] == [
        "89644976086f0119688d5d6153f495db976d5d5f7c88177190632b536757f0ed",
        "f1ee29349f8d3ad1b4b93e5090bed4a25967585b31223b24007f9dacca459a7e"]
    assert [float_digest(t) for t in (supervised.energy_trace,
                                      supervised.modularity_trace)] == [
        "02c370011597d053de1fe4e80becd2af870636a13f6a57ace39fbeeedb4c9e42",
        "5f85119ee10a1e491c4c7c36fd1045650649d4644110edeea8cfba9dec04805a"]


def test_sweep(planted):
    basis, _ = planted
    best = sweep_nhat(basis, range(2, 7), seed=1)
    assert best.nhat == 4
    check(best, "a5d4e70c9941802c2ee3d09e22a80845090b1047f3c470a854045439a2ccbbf5",
          5, 0.5827193041180746, 0.6791031008063975)


def test_recursive():
    graph, _ = planted_partition(200, 8, 8.0, 0.5, seed=4)
    labels = recursive_partition(DiffusionOperator(graph, 1.0), 2, seed=2).labels
    assert digest(labels) == (
        "2901493d90e438a67da3cedf637fe09e257ffc3f8763f60a4fd59adfd5a4a46f")
    assert labels.max() + 1 == 8
    assert modularity(graph, labels, 1.0) == pytest.approx(0.8141640478218923, rel=1e-12)


def test_recursive_through_lanczos():
    # 600 nodes: the whole graph and its first splits are solved by Lanczos
    graph, _ = planted_partition(600, 6, 10.0, 1.0, seed=5)
    labels = recursive_partition(DiffusionOperator(graph, 1.0), 2, seed=3).labels
    assert digest(labels) == (
        "a194dbe4aa2ce06b4f4c1f2525b1a5e94cf5b4529aa6c82fdd0650969a8036cf")
    assert labels.max() + 1 == 6
    assert modularity(graph, labels, 1.0) == pytest.approx(0.739072666005549, rel=1e-12)
