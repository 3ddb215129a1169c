"""Matrix-free diffusion operator and its low-end eigendecomposition.

The operator is L + (gamma/m) k k^T with L the combinatorial Laplacian
diag(k) - W.  It is symmetric positive semi-definite, applied in O(nnz)
without ever materializing the rank-one term.  The smallest eigenpairs are
computed with an implicitly restarted Lanczos iteration on the spectral fold
c*I - M (c an upper bound on ||M||), which turns the low end of the spectrum
into the well-separated high end of a PSD operator.  Operators below
DENSE_SOLVE_LIMIT nodes are solved densely instead: there a partial dense
eigendecomposition is faster than Lanczos, and it resolves repeated
eigenvalues that single-vector Lanczos returns only once.  The operator also
holds the cache in which ``partition`` keeps the bases of recursive splits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .graph import SparseGraph, _two_m

__all__ = [
    "DiffusionOperator",
    "EigenBasis",
    "smallest_eigenpairs",
    "dense_spectrum",
]

# below this node count a partial dense eigh beats Lanczos; for a 10-pair
# basis the dense solve stays faster up to roughly 400 nodes, but its n x n
# temporaries then raise peak memory, so the limit sits lower
DENSE_SOLVE_LIMIT = 256
RESIDUAL_TOL = 1e-6  # largest ||M v - lambda v|| EigenBasis.validate accepts
ORTHO_TOL = 1e-8  # largest |V^T V - I| entry it accepts
LANCZOS_TOL = 1e-8  # residual tolerance of the Lanczos solve, relative to ||M||
LANCZOS_RESTARTS = 50  # Lanczos restart cycles allowed per wanted pair


@dataclass(frozen=True)
class DiffusionOperator:
    """The linear operator L + (gamma/m) k k^T driving the diffusion step."""

    graph: SparseGraph
    gamma: float
    _split_bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        _two_m(self.graph)  # raises on a graph with no edges

    @property
    def m(self) -> float:
        return self.graph.total_weight / 2.0

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v = k*v - W v + (gamma/m) k (k . v); accepts vectors or matrices."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.graph.n_nodes:
            raise ValueError(
                f"vector has {v.shape[0]} rows for a {self.graph.n_nodes}-node operator"
            )
        k = self.graph.degrees
        coeff = self.gamma / self.m
        if v.ndim == 1:
            return k * v - self.graph.adjacency @ v + coeff * (k @ v) * k
        return k[:, None] * v - self.graph.adjacency @ v + coeff * np.outer(k, k @ v)

    def infinity_norm_bound(self) -> float:
        """2 (1 + gamma) k_max, an upper bound on the infinity norm of M."""
        return 2.0 * (1.0 + self.gamma) * float(self.graph.degrees.max())

    def to_dense(self) -> np.ndarray:
        n = self.graph.n_nodes
        k = self.graph.degrees
        dense = self.graph.adjacency.toarray()
        np.negative(dense, out=dense)
        dense[np.diag_indices(n)] = k  # the diagonal of W is empty
        rank_one = np.outer(k, k)
        rank_one *= self.gamma / self.m
        dense += rank_one
        return dense


@dataclass(frozen=True)
class EigenBasis:
    """The n_eig smallest eigenpairs of a diffusion operator.

    ``operator`` is the one home of the graph and gamma that every solve on
    this basis reads.  ``eigenvalues`` ascend and ``eigenvectors`` has
    orthonormal columns, one row per node of the operator's graph.
    """

    operator: DiffusionOperator
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.float64)
        )
        object.__setattr__(
            self, "eigenvectors", np.asarray(self.eigenvectors, dtype=np.float64)
        )
        if self.eigenvalues.ndim != 1 or self.eigenvectors.ndim != 2:
            raise ValueError("eigenvalues must be 1-d and eigenvectors 2-d")
        if self.eigenvectors.shape[0] != self.operator.graph.n_nodes:
            raise ValueError(f"eigenvectors have {self.eigenvectors.shape[0]} rows for a "
                             f"{self.operator.graph.n_nodes}-node operator")
        if self.eigenvectors.shape[1] != self.eigenvalues.size:
            raise ValueError("one eigenvector column per eigenvalue required")
        if not (np.isfinite(self.eigenvalues).all() and np.isfinite(self.eigenvectors).all()):
            raise ValueError("eigenpairs must be finite")  # the MBO loop relies on it
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")

    @property
    def n_eig(self) -> int:
        return self.eigenvalues.size

    @property
    def n_nodes(self) -> int:
        return self.eigenvectors.shape[0]

    def validate(self) -> None:
        """Check orthonormality and per-pair residuals against the operator."""
        v = self.eigenvectors
        gram_err = np.abs(v.T @ v - np.eye(self.n_eig)).max()
        if not gram_err <= ORTHO_TOL:  # a NaN fails too
            raise ValueError(f"eigenvector columns not orthonormal (max err {gram_err:.3e})")
        resid = self.operator.apply(v) - v * self.eigenvalues[None, :]
        resid_norms = np.linalg.norm(resid, axis=0)
        worst = float(resid_norms.max())
        if not worst <= RESIDUAL_TOL:
            raise ValueError(
                f"eigenpair residual {worst:.3e} exceeds tolerance {RESIDUAL_TOL:.1e}"
            )


def dense_spectrum(op: DiffusionOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum via a dense symmetric eigendecomposition (test oracle)."""
    dense = op.to_dense()
    return scipy.linalg.eigh(dense)


def smallest_eigenpairs(op: DiffusionOperator, n_eig: int) -> EigenBasis:
    """The n_eig smallest eigenpairs of the diffusion operator.

    Uses ARPACK's restarted Lanczos on the folded operator c*I - M
    (c = 2(1+gamma)k_max >= ||M||) so the wanted pairs sit at the easy end of
    the spectrum; graphs below DENSE_SOLVE_LIMIT nodes, or asking for nearly
    the whole spectrum, skip Krylov for a partial dense solve.  Lanczos
    always starts from the same vector, so the basis depends on the operator
    and n_eig alone.  Raises RuntimeError on non-convergence, reporting the
    achieved residuals.
    """
    n = op.graph.n_nodes
    if not 1 <= n_eig <= n:
        raise ValueError(f"n_eig must lie in [1, {n}], got {n_eig}")

    # one extra pair, when available, to detect a clustered truncation tail
    n_probe = min(n_eig + 1, n)
    if n < DENSE_SOLVE_LIMIT or n_probe >= n - 1:
        vals, vecs = scipy.linalg.eigh(
            op.to_dense(), subset_by_index=[0, n_probe - 1],
            overwrite_a=True,
        )
    else:
        bound = op.infinity_norm_bound()
        v0 = np.random.default_rng(0).standard_normal(n)
        folded = spla.LinearOperator(
            (n, n), matvec=lambda v: bound * v - op.apply(v), dtype=np.float64
        )
        max_restarts = LANCZOS_RESTARTS * n_eig
        try:
            mu, vecs = spla.eigsh(
                folded,
                k=n_probe,
                which="LA",
                tol=LANCZOS_TOL / max(1.0, bound),
                v0=v0,
                maxiter=max_restarts,
            )
        except spla.ArpackNoConvergence as exc:
            got = len(exc.eigenvalues)
            raise RuntimeError(
                f"Lanczos did not converge after {max_restarts} restart cycles: "
                f"{got}/{n_probe} pairs at tolerance {LANCZOS_TOL:.1e}"
            ) from exc
        vals = bound - mu
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    if n_probe > n_eig:
        gap = vals[n_eig] - vals[n_eig - 1]
        if gap <= 1e-10 * max(1.0, abs(float(vals[n_eig]))):
            warnings.warn(
                f"eigenvalue {n_eig - 1} and {n_eig} nearly coincide on a {n}-node "
                f"operator; the truncated basis splits a cluster (gap {gap:.3e})",
                stacklevel=2,
            )
    basis = EigenBasis(op, vals[:n_eig].copy(), vecs[:, :n_eig].copy())
    basis.validate()
    return basis

