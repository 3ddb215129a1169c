"""Diffusion-threshold (MBO) iteration for the balanced-TV objective.

One sweep alternates three substeps: pseudospectral diffusion under
exp(-dt*M) restricted to the retained eigenbasis, an exact pointwise
relaxation toward supervised targets when a fidelity term is present, and a
row-wise threshold back to one-hot assignments.  The timestep is picked
automatically as the geometric mean of a freezing lower bound and a spectral
decay upper bound, and a refinement phase continues from the fixed point with
a smaller timestep.
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
    "timestep_bounds",
    "select_timestep",
    "diffuse",
    "fidelity_step",
    "threshold",
    "mbo_run",
]

DT_CAP_FACTOR = 1e3  # dt never exceeds this multiple of the freezing bound
DECAY_EPSILON = 1.0  # target amplitude in the decay-time upper bound
REFINE_FACTOR = 0.1  # the refinement phase runs at this fraction of dt
MAX_ITERS = 300  # sweeps per phase before mbo_run reports converged=False


@dataclass(frozen=True)
class MboConfig:
    """Run parameters for one MBO solve.

    The eigenbasis passed to ``mbo_run`` fixes how many eigenpairs are used.
    ``dt`` overrides the automatic timestep when set.
    """

    gamma: float
    nhat: int
    dt: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.nhat < 1:
            raise ValueError("nhat must be at least 1")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive when given")


@dataclass(frozen=True)
class MboResult:
    """Outcome of one MBO solve: final assignment and diagnostics."""

    labels: np.ndarray
    iterations: int
    dt_used: float
    energy_trace: np.ndarray       # balanced TV of each thresholded iterate
    modularity_trace: np.ndarray   # its modularity; both empty unless traced
    modularity: float
    converged: bool
    nhat: int


def timestep_bounds(graph: SparseGraph, gamma: float) -> tuple[float, float]:
    """(tau_lo, cap): the freezing lower bound
    tau_lo = log(2) / (2 (gamma+1) k_max), below which no threshold step can
    move a label, and the largest admissible timestep DT_CAP_FACTOR * tau_lo."""
    tau_lo = np.log(2.0) / (2.0 * (gamma + 1.0) * float(graph.degrees.max()))
    return tau_lo, DT_CAP_FACTOR * tau_lo


def select_timestep(basis: EigenBasis, graph: SparseGraph, config: MboConfig) -> float:
    """Automatic MBO timestep.

    Geometric mean of the freezing lower bound tau_lo (see
    :func:`timestep_bounds`) and the decay-time upper bound
    tau_hi = log(sqrt(N)/DECAY_EPSILON) / lambda_1, clamped to
    [tau_lo, cap].  A degenerate lambda_1 <= 0 (near-disconnected graph)
    falls back to the cap.  An explicit ``config.dt`` is returned unchanged.
    """
    if config.dt is not None:
        return config.dt
    tau_lo, cap = timestep_bounds(graph, config.gamma)
    lam1 = basis.lambda_min
    if lam1 <= 0.0:
        return cap
    u0_norm = np.sqrt(graph.n_nodes)  # Frobenius norm of any partition matrix
    tau_hi = np.log(u0_norm / DECAY_EPSILON) / lam1
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
    rows, targets = supervision.nodes, supervision.targets(u.shape[1])
    out[rows] = targets + (u[rows] - targets) * decay
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


def _sweep_to_fixed_point(basis, u, labels, dt, supervision, history):
    """Threshold dynamics from the one-hot ``u`` of ``labels`` until the
    partition repeats or MAX_ITERS sweeps pass; returns (u, labels,
    iterations, converged) and, when ``history`` is a list, appends each
    iterate's labels to it."""
    for iteration in range(1, MAX_ITERS + 1):
        u_half = diffuse(basis, u, dt)
        if supervision is not None:
            u_half = fidelity_step(u_half, supervision, dt)
        u_next, labels_next = _threshold_with_labels(u_half)
        if history is not None:
            history.append(labels_next)
        if np.array_equal(labels_next, labels):
            return u_next, labels_next, iteration, True
        u, labels = u_next, labels_next
    return u, labels, MAX_ITERS, False


def mbo_run(graph: SparseGraph, basis: EigenBasis, config: MboConfig,
            supervision: Supervision | None = None,
            init: np.ndarray | None = None, trace: bool = False) -> MboResult:
    """Run the threshold-dynamics iteration to a fixed point.

    Starts from ``init`` (a label vector) or from seeded uniform random
    labels, iterates diffuse / fidelity / threshold until the thresholded
    partition repeats, then refines from that fixed point with
    ``dt * REFINE_FACTOR`` until stationary again.  Hitting MAX_ITERS in
    a phase is reported via ``converged=False``, not an error.  ``trace``
    records every iterate's balanced TV and modularity, which costs more than
    the loop.  Identical (graph, basis, config, supervision, init) reproduce
    the result exactly.
    """
    if basis.n_nodes != graph.n_nodes:
        raise ValueError("basis was computed for a different graph size")
    if supervision is not None:
        supervision.check_against(graph.n_nodes, config.nhat)
    if init is None:
        rng = np.random.default_rng(config.seed)
        labels = rng.integers(0, config.nhat, size=graph.n_nodes)
        if supervision is not None:
            # known labels are known at time zero; starting them anywhere
            # else only injects seed-dependent transients
            labels[supervision.nodes] = supervision.labels
    else:
        labels = np.asarray(init)
        if labels.shape != (graph.n_nodes,) or labels.dtype.kind not in "iu":
            raise ValueError(f"init: expected {graph.n_nodes} integer labels, "
                             f"got shape {labels.shape} of {labels.dtype}")
        if np.any((labels < 0) | (labels >= config.nhat)):
            raise ValueError(f"init: labels must lie in [0, {config.nhat})")
    u = labels_to_matrix(labels, config.nhat)
    dt = select_timestep(basis, graph, config)

    history = [] if trace else None
    u, labels, iters, converged = _sweep_to_fixed_point(
        basis, u, labels, dt, supervision, history
    )
    if converged:
        _, labels, extra, converged = _sweep_to_fixed_point(
            basis, u, labels, dt * REFINE_FACTOR, supervision, history
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
        iterations=iters,
        dt_used=dt,
        energy_trace=energy_trace,
        modularity_trace=modularity_trace,
        modularity=modularity(graph, labels, config.gamma),
        converged=converged,
        nhat=config.nhat,
    )
