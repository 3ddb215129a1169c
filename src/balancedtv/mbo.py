"""Diffusion-threshold (MBO) iteration for the balanced-TV objective.

One sweep alternates three substeps: pseudospectral diffusion under
exp(-dt*M) restricted to the retained eigenbasis, an exact pointwise
relaxation toward supervised targets when a fidelity term is present, and a
row-wise threshold back to one-hot assignments.  The timestep is picked
automatically as the geometric mean of a freezing lower bound and a spectral
decay upper bound, and an optional refinement phase continues from the fixed
point with a smaller timestep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import EigenBasis
from .graph import (
    SparseGraph,
    Supervision,
    balanced_tv,
    labels_to_matrix,
    modularity,
)

__all__ = [
    "MboConfig",
    "MboResult",
    "select_timestep",
    "diffuse",
    "fidelity_step",
    "threshold",
    "random_partition_matrix",
    "mbo_run",
]

DT_CAP_FACTOR = 1e3  # dt never exceeds this multiple of the freezing bound


@dataclass(frozen=True)
class MboConfig:
    """Run parameters for one MBO solve.

    ``n_eig`` defaults to 5 * nhat (capped at the node count downstream);
    ``dt`` overrides the automatic timestep when set; ``decay_epsilon`` is
    the target amplitude in the decay-time upper bound; ``refine`` continues
    from the first fixed point with ``dt * refine_factor``; ``trace`` records
    every iterate's balanced TV and modularity, which costs more than the loop.
    """

    gamma: float
    nhat: int
    n_eig: int | None = None
    dt: float | None = None
    decay_epsilon: float = 1.0
    max_iters: int = 300
    seed: int = 0
    refine: bool = True
    refine_factor: float = 0.1
    trace: bool = False

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.nhat < 1:
            raise ValueError("nhat must be at least 1")
        if self.n_eig is not None and self.n_eig < 1:
            raise ValueError("n_eig must be at least 1")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive when given")
        if self.decay_epsilon <= 0:
            raise ValueError("decay_epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 < self.refine_factor < 1.0:
            raise ValueError("refine_factor must lie in (0, 1)")

    def resolved_n_eig(self, n_nodes: int) -> int:
        n_eig = 5 * self.nhat if self.n_eig is None else self.n_eig
        return min(n_eig, n_nodes)


@dataclass(frozen=True)
class MboResult:
    """Outcome of one MBO solve: final assignment and diagnostics."""

    labels: np.ndarray
    u: np.ndarray
    iterations: int
    dt_used: float
    energy_trace: np.ndarray       # balanced TV of each thresholded iterate
    modularity_trace: np.ndarray   # its modularity; both empty unless config.trace
    modularity: float
    converged: bool
    nhat: int


def select_timestep(basis: EigenBasis, graph: SparseGraph, gamma: float,
                    config: MboConfig) -> float:
    """Automatic MBO timestep.

    Geometric mean of the freezing lower bound
    tau_lo = log(2) / (2 (gamma+1) k_max) and the decay-time upper bound
    tau_hi = log(sqrt(N)/eps) / lambda_1, clamped to [tau_lo, 1e3 tau_lo].
    A degenerate lambda_1 <= 0 (near-disconnected graph) falls back to the
    cap.  An explicit ``config.dt`` is returned unchanged.
    """
    if config.dt is not None:
        return config.dt
    k_max = float(graph.degrees.max())
    tau_lo = np.log(2.0) / (2.0 * (gamma + 1.0) * k_max)
    cap = DT_CAP_FACTOR * tau_lo
    lam1 = basis.lambda_min
    if lam1 <= 0.0:
        return cap
    u0_norm = np.sqrt(graph.n_nodes)  # Frobenius norm of any partition matrix
    log_ratio = np.log(u0_norm / config.decay_epsilon)
    if log_ratio <= 0.0:
        return tau_lo
    tau_hi = log_ratio / lam1
    return float(np.clip(np.sqrt(tau_lo * tau_hi), tau_lo, cap))


def diffuse(basis: EigenBasis, u: np.ndarray, dt: float) -> np.ndarray:
    """Projection of exp(-dt*M) u onto the retained eigenbasis:
    V diag(exp(-dt lambda_i)) V^T u."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=np.float64)
    if u.shape[0] != basis.n_nodes:
        raise ValueError(
            f"assignment has {u.shape[0]} rows for a {basis.n_nodes}-node basis"
        )
    coeffs = basis.eigenvectors.T @ u
    coeffs *= np.exp(-dt * basis.eigenvalues)[:, None]
    return basis.eigenvectors @ coeffs


def fidelity_step(u: np.ndarray, supervision: Supervision, dt: float) -> np.ndarray:
    """Exact solve of the fidelity flow u_t = -2 lambda chi (u - f) over dt.

    Supervised rows relax toward their targets by the factor
    exp(-2 lambda dt); all other entries pass through unchanged.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=np.float64)
    supervision.check_against(u.shape[0], u.shape[1])
    out = u.copy()
    decay = np.exp(-2.0 * supervision.weight * dt)
    rows = supervision.nodes
    out[rows] = supervision.targets + (u[rows] - supervision.targets) * decay
    return out


def threshold(u: np.ndarray) -> np.ndarray:
    """Row-wise one-hot at the argmax; ties go to the lowest column index."""
    return _threshold_with_labels(u)[0]


def _threshold_with_labels(u):
    """``threshold(u)`` together with the argmax labels it placed."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] < 1:
        raise ValueError("threshold expects an N x nhat matrix")
    if np.isnan(u).any():
        raise ValueError("NaN entry in assignment matrix")
    labels = np.argmax(u, axis=1)
    out = np.zeros_like(u)
    out[np.arange(u.shape[0]), labels] = 1.0
    return out, labels


def random_partition_matrix(n_nodes: int, nhat: int, rng: np.random.Generator) -> np.ndarray:
    """Independent uniform one-hot rows."""
    return labels_to_matrix(rng.integers(0, nhat, size=n_nodes), nhat)


def _sweep_to_fixed_point(basis, u, dt, supervision, max_iters, history):
    """Threshold dynamics until the partition repeats; returns
    (u, labels, iterations, converged) and, when ``history`` is a list,
    appends each iterate's labels to it."""
    labels = np.argmax(u, axis=1)
    for iteration in range(1, max_iters + 1):
        u_half = diffuse(basis, u, dt)
        if supervision is not None:
            u_half = fidelity_step(u_half, supervision, dt)
        u_next, labels_next = _threshold_with_labels(u_half)
        if history is not None:
            history.append(labels_next)
        if np.array_equal(labels_next, labels):
            return u_next, labels_next, iteration, True
        u, labels = u_next, labels_next
    return u, labels, max_iters, False


def mbo_run(graph: SparseGraph, basis: EigenBasis, config: MboConfig,
            supervision: Supervision | None = None,
            init: np.ndarray | None = None) -> MboResult:
    """Run the threshold-dynamics iteration to a fixed point.

    Starts from ``init`` (a one-hot matrix) or from seeded random one-hot
    rows, iterates diffuse / fidelity / threshold until the thresholded
    partition repeats, then optionally refines from that fixed point with
    ``dt * refine_factor`` until stationary again.  Hitting ``max_iters`` in
    a phase is reported via ``converged=False``, not an error.  Identical
    (graph, basis, config, supervision, init) reproduce the result exactly.
    """
    if basis.n_nodes != graph.n_nodes:
        raise ValueError("basis was computed for a different graph size")
    if supervision is not None:
        supervision.check_against(graph.n_nodes, config.nhat)
    rng = np.random.default_rng(config.seed)
    if init is None:
        u = random_partition_matrix(graph.n_nodes, config.nhat, rng)
        if supervision is not None:
            # known labels are known at time zero; starting them anywhere
            # else only injects seed-dependent transients
            u[supervision.nodes] = supervision.targets
    else:
        u = np.asarray(init, dtype=np.float64)
        if u.shape != (graph.n_nodes, config.nhat):
            raise ValueError(
                f"init has shape {u.shape}, expected {(graph.n_nodes, config.nhat)}"
            )
    dt = select_timestep(basis, graph, config.gamma, config)

    history = [] if config.trace else None
    u, labels, iters, converged = _sweep_to_fixed_point(
        basis, u, dt, supervision, config.max_iters, history
    )
    if config.refine and converged:
        u, labels, extra, converged = _sweep_to_fixed_point(
            basis, u, dt * config.refine_factor, supervision, config.max_iters, history
        )
        iters += extra

    energy_trace = np.array(
        [balanced_tv(graph, labels_to_matrix(lab, config.nhat), config.gamma)
         for lab in history or []]
    )
    modularity_trace = np.array(
        [modularity(graph, lab, config.gamma) for lab in history or []]
    )
    return MboResult(
        labels=labels,
        u=u,
        iterations=iters,
        dt_used=dt,
        energy_trace=energy_trace,
        modularity_trace=modularity_trace,
        modularity=modularity(graph, labels, config.gamma),
        converged=converged,
        nhat=config.nhat,
    )
